"""Ansatz construction, Rotosolve updates, and ground-state optimization."""

import numpy as np
import pytest

from corrvec.circuits import (Circuit, MeasurementSettings, NoiseModel,
                              OverlapEngine, run_pure, sample_pauli_expectation,
                              simulate)
from corrvec.fermion import BlockedSpinOrbitals, number_penalty, total_spin_squared
from corrvec.pauli import PauliSum
from corrvec.vqe import (
    AnsatzSpec,
    CircuitCost,
    build_hea,
    grow_hea_angles,
    hf_start_angles,
    rotosolve_sweep,
    vqe_ground_state,
    wrap_angle,
)
from kron_reference import two_qubit_count


def assert_sinusoidal(cost, theta, tol=1e-8):
    """f(t) + f(t + pi) = f(t + pi/2) + f(t - pi/2) along every slot: the
    restriction Rotosolve minimises in closed form is a sinusoid."""
    for d in range(len(theta)):
        def along(shift):
            moved = np.array(theta, dtype=float)
            moved[d] += shift
            return float(cost(moved))
        lhs = along(0.0) + along(np.pi)
        rhs = along(0.5 * np.pi) + along(-0.5 * np.pi)
        assert abs(lhs - rhs) <= tol, f"slot {d}: {lhs:.3e} vs {rhs:.3e}"


def test_ansatz_spec_validation():
    with pytest.raises(ValueError):
        AnsatzSpec(width=0, depth=1)
    with pytest.raises(ValueError):
        AnsatzSpec(width=2, depth=0)
    with pytest.raises(ValueError):
        AnsatzSpec(width=2, depth=1, pattern=())
    with pytest.raises(ValueError):
        AnsatzSpec(width=2, depth=1, pattern=("RY", "CX"))
    spec = AnsatzSpec(width=3, depth=2)
    assert spec.n_slots == 3 * 2 * 3


def test_build_hea_structure():
    spec = AnsatzSpec(width=4, depth=3, pattern=("RY", "RZ"))
    circ = build_hea(spec)
    assert circ.width == 4
    assert circ.n_slots == spec.n_slots
    assert two_qubit_count(circ) == 3 * 3


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_determinant_start_prepares_basis_state(depth):
    spec = AnsatzSpec(width=4, depth=depth)
    occupied = [0, 3]
    theta = hf_start_angles(spec, occupied)
    psi = run_pure(build_hea(spec).bound(theta))
    target = sum(1 << q for q in occupied)
    amp = np.zeros(16)
    amp[target] = 1.0
    assert np.allclose(np.abs(psi), amp, atol=1e-12)


def test_determinant_start_empty_and_errors():
    spec = AnsatzSpec(width=3, depth=2)
    psi = run_pure(build_hea(spec).bound(hf_start_angles(spec, [])))
    assert abs(psi[0]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        hf_start_angles(spec, [5])
    with pytest.raises(ValueError):
        hf_start_angles(AnsatzSpec(width=3, depth=1, pattern=("RZ",)), [0])


def test_grow_hea_angles_mapping(rng):
    old = AnsatzSpec(width=2, depth=1)
    new = AnsatzSpec(width=2, depth=2)
    theta = rng.uniform(-np.pi, np.pi, size=old.n_slots)
    out = grow_hea_angles(theta, old, new)
    per_block = 4
    assert out.shape == (new.n_slots,)
    assert np.allclose(out[:per_block], theta[:per_block])
    assert np.allclose(out[per_block:2 * per_block], 0.0)
    assert np.allclose(out[2 * per_block:], theta[per_block:])
    with pytest.raises(ValueError):
        grow_hea_angles(theta, old, AnsatzSpec(width=3, depth=2))
    with pytest.raises(ValueError):
        grow_hea_angles(theta, new, old)


def test_wrap_angle():
    assert wrap_angle(0.1) == pytest.approx(0.1)
    assert wrap_angle(2 * np.pi + 0.1) == pytest.approx(0.1)
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)


EXACT = MeasurementSettings()
# exact values through the estimating path of a sweep: density matrices at
# p2 = 0, one noise level, read by the per-string estimator
ESTIMATED = NoiseModel(enabled=True, p2=0.0, zne=False)
# the exact slot reading, then the estimating one
MODES = (NoiseModel(), ESTIMATED)


def circuit_cost(circ, op, noise, overlap=False):
    """<op> on the circuit's output, minus |<0|psi>|^2 with ``overlap``, as
    a ``CircuitCost``: that term is the overlap of an engine with an empty
    U1, V = I and norm 1, which under noise reads the coherence block."""
    if not overlap:
        return CircuitCost(circ, EXACT, noise, None, [op])
    engine = OverlapEngine(Circuit(circ.width), circ, EXACT, noise)
    w = np.eye(1 << circ.width, 1, dtype=complex)[:, 0]
    return CircuitCost(circ, EXACT, noise, None, [op],
                       (engine, PauliSum.identity(circ.width), 1.0), w)


def one_rotation():
    circ = Circuit(1)
    circ.add("RY", 0, slot=0)
    return circ


def monotone(cost):
    """Records every estimate ``cost`` reads.  An estimating sweep reads
    the start point, then per slot the two probes and the value after the
    move, so every third value after the first is a slot's result;
    ``check`` asserts that none of them rose above the one before."""
    values = []
    read = cost.read

    def recorded(outputs):
        values.append(float(read(outputs)))
        return values[-1]

    def check():
        kept = values[::3]
        assert len(values) % 3 == 1
        assert all(b <= a + 1e-10 for a, b in zip(kept, kept[1:])), kept
        values.clear()

    cost.read = recorded
    return check


def test_rotosolve_exact_on_pure_sinusoid():
    """<Z> = cos t and <X> = sin t on RY(t)|0>, so the cost is
    1.3 + 0.7 cos(t - 0.4), whose minimum 0.6 one slot update reaches."""
    op = PauliSum(1, [("I", 1.3), ("Z", 0.7 * np.cos(0.4)), ("X", 0.7 * np.sin(0.4))])
    for noise in MODES:
        cost = circuit_cost(one_rotation(), op, noise)
        assert_sinusoidal(cost, np.array([0.0]))
        assert cost(np.array([0.0])) == pytest.approx(1.3 + 0.7 * np.cos(0.4),
                                                      abs=1e-14)
        check = monotone(cost)
        theta, value = rotosolve_sweep(cost, np.array([0.0]), cost)
        if noise.enabled:
            check()
        assert value == pytest.approx(0.6, abs=1e-12)
        assert np.cos(theta[0] - 0.4) == pytest.approx(-1.0, abs=1e-12)


def test_rotosolve_rejects_non_finite_cost():
    op = PauliSum(1, [("Z", 1.0)])
    for noise in MODES:
        cost = circuit_cost(one_rotation(), op, noise)
        with pytest.raises(ValueError, match="start point"):
            rotosolve_sweep(lambda th: np.nan, np.array([0.0]), cost)
    # an estimate that turns non-finite partway through a sweep
    cost = circuit_cost(one_rotation(), op, ESTIMATED)
    estimates = iter([1.0, np.inf, 1.0])
    cost.read = lambda outputs: next(estimates)
    with pytest.raises(ValueError, match="slot 0"):
        rotosolve_sweep(cost, np.array([0.0]), cost)


def test_noisy_cost_reads_exactly_its_operators():
    """Under noise an output holds the values of the strings of the
    operators it was simulated for, so a cost, which reads the operators
    it names, sees exactly those; an estimate of another operator on it is
    refused, and a non-hermitian operator is refused when the cost is
    built."""
    circ = one_rotation()
    z, x = PauliSum(1, [("Z", 1.0)]), PauliSum(1, [("X", 1.0)])
    cost = CircuitCost(circ, EXACT, ESTIMATED, None, [z])
    assert cost.circuits == [circ] and cost.reads == [(z,)]
    assert cost(np.array([0.3])) == pytest.approx(np.cos(0.3), abs=1e-14)
    output = simulate(circ, np.array([0.3]), ESTIMATED, [z])
    with pytest.raises(ValueError, match="other operators only"):
        sample_pauli_expectation(circ, None, x, EXACT, ESTIMATED, None, output)
    with pytest.raises(ValueError, match="hermitian"):
        CircuitCost(circ, EXACT, ESTIMATED, None, [PauliSum(1, [("Z", 1j)])])


def test_rotosolve_monotone_on_circuit_cost(h2_hamiltonian, rng):
    spec = AnsatzSpec(width=4, depth=2)
    start = rng.uniform(-0.3, 0.3, size=spec.n_slots)
    for noise in MODES:
        full = circuit_cost(build_hea(spec), h2_hamiltonian, noise)
        cost = circuit_cost(build_hea(spec), h2_hamiltonian, noise)
        theta = start
        values = [full(theta)]
        check = monotone(cost)
        for _ in range(3):
            assert_sinusoidal(full, theta)
            theta, value = rotosolve_sweep(cost, theta, cost)
            # an exact sweep reads no estimate per slot; it checks each
            # slot's value against the carried one itself
            if noise.enabled:
                check()
            values.append(value)
        assert_sinusoidal(full, theta)
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))


def test_flat_slots_keep_their_angle(h2_hamiltonian, rng):
    """The first-layer RZ of pattern (RZ, RY) acts on |0>, a pure phase:
    its sinusoid is flat, so exact sweeps leave its angles bit-identical
    instead of moving them to the argmin of round-off."""
    spec = AnsatzSpec(width=4, depth=2, pattern=("RZ", "RY"))
    theta0 = rng.uniform(-np.pi, np.pi, size=spec.n_slots)
    _, theta, trace = vqe_ground_state(h2_hamiltonian, spec,
                                       MeasurementSettings(), NoiseModel(), rng,
                                       tol=1e-9, max_sweeps=3, theta0=theta0)
    first_rz = [2 * q for q in range(spec.width)]
    assert trace.sweeps == 3
    assert np.array_equal(theta[first_rz], theta0[first_rz])
    assert not np.array_equal(theta, theta0)


def test_small_slots_of_large_terms_move():
    """f(t) = 1e-13 cos t, the difference of two O(1) terms, is far above
    their round-off: sweeps move the slot to its minimum at +-pi, the exact
    one instead of calling it flat."""
    op = PauliSum(1, [("I", 0.5), ("Z", 0.5 + 1e-13)])
    for noise in MODES:
        cost = circuit_cost(one_rotation(), op, noise, overlap=True)
        for start in (0.0, 0.3):
            theta, value = rotosolve_sweep(cost, np.array([start]), cost)
            assert abs(abs(theta[0]) - np.pi) < 1e-2, (start, noise)
            assert value == pytest.approx(-1e-13, abs=1e-15)


def test_vqe_reaches_h2_ground_state(h2_hamiltonian, h2_ground, rng):
    e_ref, _ = h2_ground
    spec = AnsatzSpec(width=4, depth=3)
    layout = BlockedSpinOrbitals(2)
    theta0 = hf_start_angles(spec, layout.closed_shell_modes(2),
                             jitter=0.02, rng=rng)
    pen = number_penalty(4, 2, 1.0) + total_spin_squared(2)
    e0, theta, trace = vqe_ground_state(
        h2_hamiltonian, spec, MeasurementSettings(), NoiseModel(), rng,
        tol=1e-8, max_sweeps=200, penalty=pen, theta0=theta0)
    assert trace.converged
    assert theta.shape == (spec.n_slots,)
    assert e0 == pytest.approx(e_ref, abs=1e-6)
    hist = trace.cost_history
    assert all(b <= a + 1e-10 for a, b in zip(hist, hist[1:]))
    lines = trace.log_lines().splitlines()
    assert len(lines) == trace.sweeps
    assert lines[0].startswith("0 ")


@pytest.mark.parametrize("scale", [1e-6, 1e-2, 1.0, 1e4, 1e6, 1e8])
def test_exact_sweeps_run_at_any_scale_of_the_hamiltonian(lih_cas_hamiltonian, scale):
    """Exact sweeps of LiH CAS(2,2) from a random start reach the same
    energy per unit of H at any scale: the reality check on each
    expectation value is relative to the operator's size."""
    spec = AnsatzSpec(width=4, depth=3)
    theta0 = np.random.default_rng(1).uniform(-np.pi, np.pi, spec.n_slots)
    runs = [vqe_ground_state(s * lih_cas_hamiltonian, spec, MeasurementSettings(),
                             NoiseModel(), np.random.default_rng(2), tol=0.0,
                             max_sweeps=3, theta0=theta0)
            for s in (1.0, scale)]
    assert runs[1][2].sweeps == 3
    assert runs[1][0] / scale == pytest.approx(runs[0][0], rel=1e-10)


def test_determinant_start_jitter_is_bounded_and_reproducible():
    spec = AnsatzSpec(width=4, depth=2)
    modes = [0, 2]
    base = hf_start_angles(spec, modes)
    j1 = hf_start_angles(spec, modes, jitter=0.02, rng=np.random.default_rng(5))
    j2 = hf_start_angles(spec, modes, jitter=0.02, rng=np.random.default_rng(5))
    assert np.array_equal(j1, j2)
    assert np.all(np.abs(j1 - base) <= 0.02)
    assert np.any(j1 != base)
    with pytest.raises(ValueError):
        hf_start_angles(spec, modes, jitter=0.02)
    with pytest.raises(ValueError):
        hf_start_angles(spec, modes, jitter=-0.1, rng=np.random.default_rng(5))


def test_vqe_validates_inputs(h2_hamiltonian, rng):
    spec = AnsatzSpec(width=3, depth=1)
    with pytest.raises(ValueError):
        vqe_ground_state(h2_hamiltonian, spec, MeasurementSettings(), NoiseModel(),
                         rng, tol=1e-9, max_sweeps=200)
    bad_start = np.zeros(5)
    with pytest.raises(ValueError):
        vqe_ground_state(h2_hamiltonian, AnsatzSpec(width=4, depth=1),
                         MeasurementSettings(), NoiseModel(), rng, tol=1e-9,
                         max_sweeps=200, theta0=bad_start)
