"""Gate simulation: unitaries, noise channel, sampling, overlap circuits."""

import numpy as np
import pytest

from corrvec.circuits import (
    Circuit,
    MeasurementSettings,
    NoiseModel,
    OverlapEngine,
    ccx_gates,
    depolarize_pair,
    expectation_from_state,
    make_controlled,
    run_density,
    run_pure,
    sample_pauli_expectation,
    sample_z_value,
    zne_extrapolate,
)
from corrvec.oracle import materialize
from corrvec.pauli import PauliSum, apply_sum, string_traces
from kron_reference import (
    ancilla_z,
    apply_string,
    assert_valid_density,
    assert_valid_state,
    circuit_unitary,
    estimate_expectation,
    estimate_overlap,
    overlap_circuit,
)


def small_parameterized(width=2):
    """A circuit of the gate kinds build_hea emits, which make_controlled takes."""
    circ = Circuit(width)
    circ.add("RX", 0, angle=0.7)
    circ.add("RY", 0, slot=0)
    circ.add("CX", 0, 1)
    circ.add("RZ", 1, slot=1)
    circ.add("RX", 1, slot=2)
    circ.add("RZ", 0, angle=0.3)
    return circ


def test_gate_validation():
    circ = Circuit(2)
    with pytest.raises(ValueError):
        circ.add("SWAP", 0, 1)
    with pytest.raises(ValueError):
        circ.add("CX", 0)
    with pytest.raises(ValueError):
        circ.add("CX", 1, 1)
    with pytest.raises(ValueError):
        circ.add("H", 5)
    with pytest.raises(ValueError):
        circ.add("RY", 0)
    with pytest.raises(ValueError):
        circ.add("X", 0, angle=1.0)


def test_ry_pi_flips_qubit():
    circ = Circuit(1)
    circ.add("RY", 0, angle=np.pi)
    psi = run_pure(circ)
    assert np.allclose(psi, [0.0, 1.0], atol=1e-15)


def test_bound_matches_slot_run(rng):
    circ = small_parameterized()
    theta = rng.uniform(-np.pi, np.pi, size=circ.n_slots)
    assert np.allclose(run_pure(circ, theta), run_pure(circ.bound(theta)), atol=1e-13)
    with pytest.raises(ValueError):
        circ.bound(theta[:-1])
    with pytest.raises(ValueError):
        run_pure(circ)


def test_circuit_unitary_consistency(rng):
    circ = small_parameterized()
    theta = rng.uniform(-np.pi, np.pi, size=circ.n_slots)
    u = circuit_unitary(circ, theta)
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    e0 = np.zeros(4)
    e0[0] = 1.0
    assert np.allclose(u @ e0, run_pure(circ, theta), atol=1e-12)


def test_toffoli_decomposition_is_exact():
    circ = Circuit(3)
    circ.extend(ccx_gates(0, 1, 2))
    u = circuit_unitary(circ)
    expect = np.eye(8, dtype=complex)
    # bits 0 and 1 set: flip bit 2
    expect[[3, 7], :] = 0.0
    expect[3, 7] = expect[7, 3] = 1.0
    assert np.allclose(u, expect, atol=1e-12)


def test_controlled_circuit_block_structure(rng):
    circ = small_parameterized()
    theta = rng.uniform(-np.pi, np.pi, size=circ.n_slots)
    ctrl = make_controlled(circ)
    assert ctrl.width == 3
    u_full = circuit_unitary(ctrl, theta)
    u = circuit_unitary(circ, theta)
    expect = np.zeros((8, 8), dtype=complex)
    expect[:4, :4] = np.eye(4)
    expect[4:, 4:] = u
    assert np.allclose(u_full, expect, atol=1e-12)
    # only the kinds build_hea emits can be controlled
    for kind, qubits in (("H", (0,)), ("X", (0,)), ("CZ", (0, 1))):
        other = Circuit(2)
        other.add(kind, *qubits)
        with pytest.raises(ValueError):
            make_controlled(other)


def test_depolarize_matches_pauli_kraus_sum(rng):
    m = 3
    q1, q2 = 0, 2
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    vec /= np.linalg.norm(vec)
    rho = np.outer(vec, vec.conj())
    p2 = 0.2
    out = depolarize_pair(rho, q1, q2, p2, m)
    assert_valid_density(out)
    # direct Kraus sum over the 16 Pauli pairs on (q1, q2)
    acc = np.zeros_like(rho)
    for a in "IXYZ":
        for b in "IXYZ":
            label = [c for c in "III"]
            label[q1], label[q2] = a, b
            pm = materialize(PauliSum.from_label("".join(label)))
            acc += pm @ rho @ pm.conj().T
    expect = (1.0 - p2) * rho + (p2 / 15.0) * (acc - rho)
    assert np.allclose(out, expect, atol=1e-12)


def test_depolarize_fixed_point_and_bounds():
    rho_mm = np.eye(4) / 4.0
    assert np.allclose(depolarize_pair(rho_mm, 0, 1, 0.5, 2), rho_mm, atol=1e-14)
    with pytest.raises(ValueError):
        depolarize_pair(rho_mm, 0, 1, 0.95, 2)


def test_full_depolarization_gives_maximally_mixed_pair():
    circ = Circuit(2)
    circ.add("H", 0)
    circ.add("CX", 0, 1)
    rho = run_density(circ, p2=15.0 / 16.0)
    assert np.allclose(rho, np.eye(4) / 4.0, atol=1e-12)


def test_run_density_matches_pure_without_noise(rng):
    circ = small_parameterized()
    theta = rng.uniform(-np.pi, np.pi, size=circ.n_slots)
    psi = run_pure(circ, theta)
    assert_valid_state(psi)
    rho = run_density(circ, theta)
    assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)


def test_density_expectation_matches_dense(rng):
    circ = small_parameterized()
    theta = rng.uniform(-np.pi, np.pi, size=circ.n_slots)
    rho = run_density(circ, theta, p2=1e-3)
    op = PauliSum(2, [("XZ", 0.7), ("YI", -0.2), ("II", 0.4)])
    direct = np.trace(rho @ materialize(op))
    strings, traces = string_traces(op, rho)
    summed = sum(coeff * t for (_, _, _, coeff), t in zip(strings, traces))
    assert summed == pytest.approx(complex(direct), abs=1e-12)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(enabled=True, p2=0.99)
    with pytest.raises(ValueError):
        NoiseModel(enabled=True, p2=1e-3, boost=0.5)
    with pytest.raises(ValueError):
        NoiseModel(enabled=True, p2=0.6, boost=2.0, zne=True)


def test_measurement_settings():
    with pytest.raises(ValueError):
        MeasurementSettings(mode="analog")
    with pytest.raises(ValueError):
        MeasurementSettings(shots=0)
    with pytest.raises(ValueError):
        MeasurementSettings(seed=-1)
    s = MeasurementSettings(mode="sampled", shots=100, seed=5)
    a = s.make_rng(1, 2).standard_normal(4)
    b = s.make_rng(1, 2).standard_normal(4)
    c = s.make_rng(1, 3).standard_normal(4)
    assert np.allclose(a, b)
    assert not np.allclose(a, c)


def test_sample_z_value_statistics():
    rng = np.random.default_rng(9)
    est = sample_z_value(0.3, 1_000_000, rng)
    assert abs(est - 0.3) < 5e-3
    assert sample_z_value(1.0, 100, rng) == 1.0
    assert sample_z_value(-1.0, 100, rng) == -1.0


def test_zne_closed_form():
    e_true, c, p = 0.8, 120.0, 1e-3
    e_p = e_true * np.exp(-c * p)
    e_2p = e_true * np.exp(-2 * c * p)
    assert zne_extrapolate(e_p, e_2p) == pytest.approx(e_true, abs=1e-12)
    # inconsistent pair falls back to the linear rule
    assert zne_extrapolate(0.1, -0.2) == pytest.approx(0.4)


def test_sample_pauli_expectation_exact_mode(rng):
    circ = small_parameterized()
    theta = rng.uniform(-np.pi, np.pi, size=circ.n_slots)
    op = PauliSum(2, [("ZI", 0.5), ("XX", 1.1), ("II", -0.3)])
    settings = MeasurementSettings()
    val = sample_pauli_expectation(circ, theta, op, settings, NoiseModel())
    psi = run_pure(circ, theta)
    assert val == pytest.approx(expectation_from_state(psi, op), abs=1e-12)


def test_sampled_mode_is_seeded_and_consistent(rng):
    circ = small_parameterized()
    theta = rng.uniform(-np.pi, np.pi, size=circ.n_slots)
    op = PauliSum(2, [("ZI", 0.5), ("XX", 1.1)])
    settings = MeasurementSettings(mode="sampled", shots=200_000, seed=11)
    a = sample_pauli_expectation(circ, theta, op, settings, NoiseModel())
    b = sample_pauli_expectation(circ, theta, op, settings, NoiseModel())
    assert a == b
    exact = sample_pauli_expectation(circ, theta, op, MeasurementSettings(), NoiseModel())
    assert abs(a - exact) < 2e-2


def test_noisy_expectation_and_zne_improvement():
    circ = Circuit(2)
    circ.add("RY", 0, angle=0.7)
    circ.add("CX", 0, 1)
    circ.add("CX", 0, 1)
    op = PauliSum(2, [("ZI", 1.0)])
    settings = MeasurementSettings()
    exact = sample_pauli_expectation(circ, None, op, settings, NoiseModel())
    assert exact == pytest.approx(np.cos(0.7), abs=1e-12)
    zero_noise = NoiseModel(enabled=True, p2=0.0)
    assert sample_pauli_expectation(circ, None, op, settings, zero_noise) == \
        pytest.approx(exact, abs=1e-10)
    raw = sample_pauli_expectation(
        circ, None, op, settings, NoiseModel(enabled=True, p2=5e-3, zne=False))
    mitigated = sample_pauli_expectation(
        circ, None, op, settings, NoiseModel(enabled=True, p2=5e-3, zne=True))
    assert abs(raw - exact) > 1e-3
    assert abs(mitigated - exact) < abs(raw - exact)


def hadamard_case(rng):
    u1 = Circuit(2)
    u1.add("RX", 0, angle=1.1)
    u1.add("RY", 0, angle=0.4)
    u1.add("CX", 0, 1)
    u1.add("RZ", 1, angle=-0.9)
    u2 = small_parameterized()
    theta = rng.uniform(-np.pi, np.pi, size=u2.n_slots)
    return u1, u2, theta


def test_overlap_circuit_matches_direct(rng):
    u1, u2, theta = hadamard_case(rng)
    psi1 = run_pure(u1)
    psi2 = run_pure(u2, theta)
    for label in ("XY", "ZI", "II", "YZ"):
        direct = np.vdot(psi1, apply_string(label, psi2))
        for phi in (0.0, np.pi / 2):
            circ = overlap_circuit(u1, u2, label, phi)
            z = ancilla_z(run_pure(circ, theta))
            expect = (np.exp(1j * phi) * direct).real
            assert z == pytest.approx(expect, abs=1e-10)


def test_overlap_engine_exact_matches_direct(rng):
    u1, u2, theta = hadamard_case(rng)
    op = PauliSum(2, [("XY", 0.3 - 0.2j), ("ZI", 1.2), ("II", 0.5j)])
    engine = OverlapEngine(u1, u2, MeasurementSettings(), NoiseModel())
    est = engine.estimate_sum(theta, op)
    direct = np.vdot(run_pure(u1), apply_sum(op, run_pure(u2, theta)))
    assert est == pytest.approx(complex(direct), abs=1e-10)


def test_overlap_engine_noisy_path_consistent(rng):
    u1, u2, theta = hadamard_case(rng)
    op = PauliSum(2, [("XY", 0.3 - 0.2j), ("ZI", 1.2)])
    direct = np.vdot(run_pure(u1), apply_sum(op, run_pure(u2, theta)))
    silent = OverlapEngine(u1, u2, MeasurementSettings(),
                           NoiseModel(enabled=True, p2=0.0))
    assert silent.estimate_sum(theta, op) == pytest.approx(complex(direct), abs=1e-10)
    noisy = OverlapEngine(u1, u2, MeasurementSettings(),
                          NoiseModel(enabled=True, p2=1e-3, zne=True, boost=2.0))
    est = noisy.estimate_sum(theta, op)
    assert abs(est - direct) < 0.05


def test_ancilla_z_reads_top_qubit():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    assert ancilla_z(psi) == pytest.approx(1.0)
    psi = np.zeros(4, dtype=complex)
    psi[2] = 1.0
    assert ancilla_z(psi) == pytest.approx(-1.0)
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    assert ancilla_z(rho) == pytest.approx(0.0)


ESTIMATOR_NOISE = {
    "noiseless": NoiseModel(),
    "noisy": NoiseModel(enabled=True, p2=0.02, zne=False),
    "zne": NoiseModel(enabled=True, p2=0.02, boost=2.0, zne=True),
    "zne at p2 = 0": NoiseModel(enabled=True, p2=0.0),
    # c = 1: the overlap's (1 - c)^w is 0 for each non-identity string, 0^0 = 1
    "full depolarization": NoiseModel(enabled=True, p2=15.0 / 16.0, zne=False),
}


@pytest.mark.parametrize("mode", ["exact", "sampled"])
@pytest.mark.parametrize("noise_name", sorted(ESTIMATOR_NOISE))
def test_estimators_match_dense_references(mode, noise_name, rng):
    """Both entry points, every mode and noise setting, against the dense
    references drawing from identically seeded generators in the
    documented order; 1000 shots make a reordered draw show."""
    noise = ESTIMATOR_NOISE[noise_name]
    settings = MeasurementSettings(mode=mode, shots=1000, seed=3)
    u1, u2, theta = hadamard_case(rng)
    herm = PauliSum(2, [("ZI", 0.5), ("XX", 1.1), ("YZ", -0.7), ("II", -0.3)])
    got = sample_pauli_expectation(u2, theta, herm, settings, noise,
                                   np.random.default_rng(21))
    expect = estimate_expectation(u2, theta, herm, settings, noise,
                                  np.random.default_rng(21))
    assert got == pytest.approx(expect, abs=1e-10)

    op = PauliSum(2, [("XY", 0.3 - 0.2j), ("ZI", 1.2), ("II", 0.5j)])
    engine = OverlapEngine(u1, u2, settings, noise)
    got = engine.estimate_sum(theta, op, np.random.default_rng(22))
    expect = estimate_overlap(u1, u2, theta, op, settings, noise,
                              np.random.default_rng(22))
    assert got == pytest.approx(expect, abs=1e-10)
    # without a generator both draw from the settings' own seed
    assert engine.estimate_sum(theta, op) == pytest.approx(
        estimate_overlap(u1, u2, theta, op, settings, noise,
                         settings.make_rng()), abs=1e-10)
