"""Trace spectra, mean-field resolvents, and active-space embedding."""

import numpy as np
import pytest

from corrvec.greens import (
    dyson_embed,
    g0,
    nondyson_embed,
    spin_up_block,
    trace_spectrum,
)
from oracle_reference import expand_spin


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def test_trace_spectrum():
    g = np.array([[1 - 2j, 5.0], [7.0, 3 - 4j]])
    assert trace_spectrum(g) == pytest.approx(-6.0)
    with pytest.raises(ValueError):
        trace_spectrum(np.zeros((2, 3)))


def test_g0_is_lorentzian_on_eigenbasis():
    eps = np.array([-0.5, 0.2, 0.9])
    f = np.diag(eps)
    eta = 0.05
    for omega in (-0.5, 0.0, 0.7):
        g = g0(f, omega + 1j * eta)
        expect = np.diag(1.0 / (omega + 1j * eta - eps))
        assert np.allclose(g, expect, atol=1e-14)
    # peak height of the spectral function at the pole is 1/(pi*eta)
    g_peak = g0(f, eps[1] + 1j * eta)
    height = -g_peak[1, 1].imag / np.pi
    assert height == pytest.approx(1.0 / (np.pi * eta), rel=1e-12)
    assert np.all(np.diag(g0(f, 0.3 + 1j * eta)).imag < 0)
    with pytest.raises(np.linalg.LinAlgError):
        g0(f, complex(eps[0]))


def test_g0_conjugation_symmetry(rng):
    f = random_hermitian(4, rng)
    z = 0.4 + 0.3j
    assert np.allclose(g0(f, np.conj(z)), g0(f, z).conj().T, atol=1e-12)


def test_spin_expansion_roundtrip(rng):
    spatial = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    full = expand_spin(spatial)
    assert full.shape == (6, 6)
    assert np.array_equal(full[:3, :3], spatial)
    assert np.array_equal(full[3:, 3:], spatial)
    assert np.all(full[:3, 3:] == 0) and np.all(full[3:, :3] == 0)
    assert np.array_equal(spin_up_block(full), spatial)


def test_embeddings_agree_on_decoupled_fock(rng):
    n, active = 4, (1, 2)
    f = np.zeros((n, n))
    f[0, 0], f[3, 3] = -1.2, 0.8
    f_aa = np.array([[0.1, 0.3], [0.3, -0.4]])
    f[np.ix_(active, active)] = f_aa
    zs = np.array([0.2 + 0.05j, -0.7 + 0.05j, 1.5 + 0.05j])
    g_cas = np.stack([np.linalg.inv(z * np.eye(2) - f_aa)
                      - 0.1j * np.eye(2) for z in zs])

    g_dyson, skipped = dyson_embed(g_cas, f, active, zs)
    g_nondyson = nondyson_embed(g_cas, f, active, zs)
    assert skipped == []
    assert np.max(np.abs(g_dyson - g_nondyson)) < 1e-10

    for k, z in enumerate(zs):
        direct = np.zeros((n, n), dtype=complex)
        direct[0, 0] = 1.0 / (z - f[0, 0])
        direct[3, 3] = 1.0 / (z - f[3, 3])
        direct[np.ix_(active, active)] = g_cas[k]
        assert np.max(np.abs(g_dyson[k] - direct)) < 1e-10


def test_embedding_with_all_orbitals_active_returns_input(rng):
    n = 3
    f = random_hermitian(n, rng).real
    zs = np.array([0.3 + 0.02j, -0.5 + 0.02j])
    g_cas = np.stack([np.linalg.inv(z * np.eye(n) - f) - 0.05j * np.eye(n)
                      for z in zs])
    active = (0, 1, 2)
    g_dyson, skipped = dyson_embed(g_cas, f, active, zs)
    g_nondyson = nondyson_embed(g_cas, f, active, zs)
    assert skipped == []
    assert np.max(np.abs(g_dyson - g_cas)) < 1e-10
    assert np.max(np.abs(g_nondyson - g_cas)) < 1e-10


def test_dyson_embed_skips_singular_points(rng):
    n, active = 3, (0, 1)
    f = random_hermitian(n, rng).real
    zs = np.array([0.1 + 0.05j, 0.2 + 0.05j, 0.3 + 0.05j])
    g_cas = np.stack([np.linalg.inv(z * np.eye(2) - f[:2, :2]) for z in zs])
    g_cas[1] = 0.0
    g, skipped = dyson_embed(g_cas, f, active, zs)
    assert skipped == [1]
    assert np.all(np.isnan(g[1].real))
    assert not np.any(np.isnan(g[[0, 2]].real))


def test_singularity_guard_is_scale_invariant():
    """A well-conditioned G_cas with small entries is not singular: at
    |z| = 1000 an exact diag 1/(z - eps) over 4 active orbitals has a
    determinant near 1e-12 but condition number near 1."""
    eps = np.array([-1.3, -0.4, 0.2, 0.9, 1.7, 2.5])
    f = np.diag(eps)
    active = (1, 2, 3, 4)
    zs = 1j * np.geomspace(1.0, 1e3, 8)
    g_cas = np.stack([np.diag(1.0 / (z - eps[list(active)])) for z in zs])
    g_dyson, skipped = dyson_embed(g_cas, f, active, zs)
    assert skipped == []
    assert np.allclose(g_dyson, nondyson_embed(g_cas, f, active, zs),
                       rtol=1e-10, atol=0.0)
    # the resolvent's guard does not depend on scale either
    tiny = 1e-200
    assert np.allclose(g0(tiny * f, tiny * 1j),
                       np.diag(1.0 / (tiny * 1j - tiny * eps)), rtol=1e-12, atol=0.0)


def test_zero_self_energy_recovers_mean_field(rng):
    n, active = 4, (1, 2)
    f = random_hermitian(n, rng).real
    idx = np.asarray(active)
    f_aa = f[np.ix_(idx, idx)]
    zs = np.array([0.6 + 0.1j, -1.1 + 0.1j])
    g_cas = np.stack([np.linalg.inv(z * np.eye(2) - f_aa) for z in zs])
    g, skipped = dyson_embed(g_cas, f, active, zs)
    assert skipped == []
    for k, z in enumerate(zs):
        assert np.max(np.abs(g[k] - g0(f, z))) < 1e-10
