"""Gate simulation: unitaries, noise channel, sampling, overlap circuits."""

import itertools

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


def test_sample_z_value_clips_round_off_and_refuses_non_finite():
    """A value a rounding step outside [-1, 1] is read as the bound; a NaN
    or infinite one, the mark of a broken state, raises instead of reading
    as a finite estimate."""
    rng = np.random.default_rng(9)
    assert sample_z_value(1.0 + 4e-16, 100, rng) == 1.0
    assert sample_z_value(-1.0 - 4e-16, 100, rng) == -1.0
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="non-finite"):
            sample_z_value(bad, 100, rng)


def test_sample_z_value_draws_an_array_as_one_value_at_a_time():
    """An array is drawn in C order in one call, which gives the stream of
    one call per value; values a rounding step outside [-1, 1] are read as
    the bounds."""
    values = np.array([[0.3, -0.7], [1.0 + 4e-16, -1.0 - 4e-16], [0.0, 0.999]])
    together = sample_z_value(values, 1000, np.random.default_rng(4))
    rng = np.random.default_rng(4)
    # one scalar draw per value, in the arithmetic of a single estimate
    alone = [2.0 * rng.binomial(1000, min(1.0, max(0.0, 0.5 * (1.0 + v)))) / 1000 - 1.0
             for v in values.ravel().tolist()]
    assert together.shape == values.shape
    assert together.ravel().tolist() == alone
    assert together[1].tolist() == [1.0, -1.0]


@pytest.mark.parametrize("where", [0, 3, 5])
def test_sample_z_value_refuses_a_nan_anywhere_before_drawing(where):
    values = np.full(6, 0.25)
    values[where] = np.nan
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="non-finite"):
        sample_z_value(values.reshape(3, 2), 100, rng)
    assert rng.bit_generator.state == before


def test_zne_extrapolates_mixed_rows_as_one_pair_at_a_time():
    """Rows that decay exponentially and rows that fall back to Richardson
    (a sign change, a vanishing or a zero denominator) side by side in one
    array, each as the scalar rule gives it and with no warning."""
    e_p = np.array([0.8, 0.1, 0.3, -0.5, 0.2, 0.0])
    e_2p = np.array([0.6, -0.2, 1e-13, -0.4, 0.0, 0.0])
    rows = zne_extrapolate(e_p, e_2p)
    assert rows.tolist() == [zne_extrapolate(a, b) for a, b
                             in zip(e_p.tolist(), e_2p.tolist())]
    assert rows[0] == 0.8 * 0.8 / 0.6
    assert rows[1] == 2.0 * 0.1 + 0.2


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
    # string weights (1, 2) against op's (2, 1): the damping kept for one
    # operator is not read for another
    other = PauliSum(2, [("YI", 0.7), ("ZZ", -0.4j)])
    fresh = [OverlapEngine(u1, u2, MeasurementSettings(), noisy.noise)
             .estimate_sum(theta, o) for o in (other, op)]
    assert [noisy.estimate_sum(theta, o) for o in (other, op, other)] == fresh + fresh[:1]


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


@pytest.mark.parametrize("noise_name", ["noiseless", "zne"])
def test_sampled_estimates_match_the_references_bit_for_bit(noise_name, rng):
    """Sampled draws are whole shot counts, so with the draws in the
    documented order each estimate, and each coefficient times estimate
    summed string by string, repeats the reference to the last bit; the
    operators hold more strings than a pairwise sum adds one by one."""
    noise = ESTIMATOR_NOISE[noise_name]
    settings = MeasurementSettings(mode="sampled", shots=1000, seed=3)
    u1, u2, theta = hadamard_case(rng)
    labels = ["".join(p) for p in itertools.product("IXYZ", repeat=2)]
    coeffs = rng.uniform(-1.0, 1.0, size=(2, len(labels)))
    herm = PauliSum(2, zip(labels, coeffs[0]))
    assert sample_pauli_expectation(u2, theta, herm, settings, noise,
                                    np.random.default_rng(21)) == \
        estimate_expectation(u2, theta, herm, settings, noise,
                             np.random.default_rng(21))
    op = PauliSum(2, zip(labels, coeffs[0] + 1j * coeffs[1]))
    engine = OverlapEngine(u1, u2, settings, noise)
    assert engine.estimate_sum(theta, op, np.random.default_rng(22)) == \
        estimate_overlap(u1, u2, theta, op, settings, noise,
                         np.random.default_rng(22))
